"""The one expansion record, and the one capped memo that keeps it.

The trace fold (:class:`repro.tla.trace.SuccessorCache`, paper Section 4) and
the simulation engine's walks (:mod:`repro.engine.simulate`) ask "what are
the successors of this state?" over and over.  Both keep the answer as an
:class:`Expansion` in a :class:`Memo`, each under its own key: the trace fold
under the interner's exact key (a fingerprint selects, equality decides), as
a :class:`StateExpansion`, which keeps the state too; a walk under the walked
state's fingerprint, as the visited store does.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Any, List, Optional, Sequence, Tuple

__all__ = ["MEMO_MAX", "Expansion", "Memo", "StateExpansion"]

#: The one cap: on the walk's expansion and verdict memos and on the generic
#: kernel's read-set tries (leaves).  Bounds per-process memory on
#: paper-scale runs.
MEMO_MAX = 500_000


class Expansion:
    """One state's successors as three columns: ``actions`` (a tuple of names),
    ``slots`` (their value tuples laid end to end, ``width`` slots each) and
    ``fps`` (their fingerprints, an ``array('Q')``).

    Built from what the expander's ``transitions`` handed back -- its order,
    duplicates kept, nothing bound -- and no per-successor tuple or int
    survives it.  It reads as the sequence of ``(action, values, fp)``
    triples, each built when read.
    """

    __slots__ = ("actions", "slots", "width", "fps")

    def __init__(self, transitions: Sequence[Tuple]) -> None:
        names: List[str] = []
        slots: List[Any] = []
        fps: List[int] = []
        for name, successor, successor_fp in transitions:
            names.append(name)
            slots.extend(successor)
            fps.append(successor_fp)
        self.actions = tuple(names)
        self.slots = tuple(slots)
        self.width = len(slots) // len(names) if names else 0
        self.fps = array("Q", fps)

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, index: int) -> Tuple[str, Tuple[Any, ...], int]:
        action = self.actions[index]  # an IndexError ends iteration
        start = (index % len(self.actions)) * self.width
        return action, self.slots[start : start + self.width], self.fps[index]

    def successor(self, position: int) -> Tuple[Any, ...]:
        """The value tuple of the successor at ``position`` (``0 <= position < len(self)``)."""
        start = position * self.width
        return self.slots[start : start + self.width]

    @property
    def successors(self) -> Tuple[Tuple[Any, ...], ...]:
        """Every successor's value tuple, in order."""
        return tuple(map(self.successor, range(len(self.actions))))

    def find(self, fp: int) -> Optional[int]:
        """The position of the first successor with fingerprint ``fp``, if any:
        a candidate, which the caller compares before believing it."""
        try:
            return self.fps.index(fp)
        except ValueError:
            return None


class StateExpansion(Expansion):
    """An :class:`Expansion` that keeps its state, as the trace fold needs:
    ``values``, whose objects the fold's memo key names by identity and so
    must stay alive, ``fp``, and :attr:`enabled`.  A walk keys its records on
    the fingerprint and keeps none of this."""

    __slots__ = ("values", "fp", "_enabled")

    def __init__(self, values: Tuple[Any, ...], fp: int, transitions: Sequence[Tuple]) -> None:
        super().__init__(transitions)
        self.values = values
        self.fp = fp
        self._enabled: Optional[Tuple[str, ...]] = None

    @property
    def enabled(self) -> Tuple[str, ...]:
        """Enabled action names, in order of first appearance; worked out when
        first read (coverage and a failure message ask, a bare step does not)."""
        if self._enabled is None:
            self._enabled = tuple(dict.fromkeys(self.actions))
        return self._enabled


def _weight(value: Any) -> int:
    return 1 + len(value) if isinstance(value, Expansion) else 1


class Memo(dict):
    """A dict capped at :attr:`cap`, the oldest half of its entries evicted
    first -- a wholesale clear would drop every hot entry mid-run.

    :attr:`weight` is one per entry plus the successors its
    :class:`Expansion` entries hold.  The cap counts that weight, since an
    expansion's memory grows with its successors, so one entry alone may
    outweigh it; with ``weighed=False`` it counts entries.
    """

    __slots__ = ("cap", "weighed", "weight")

    def __init__(self, cap: int = MEMO_MAX, *, weighed: bool = True) -> None:
        super().__init__()
        self.cap = cap
        self.weighed = weighed
        self.weight = 0

    def keep(self, key: Any, value: Any) -> Any:
        """Store ``value`` under ``key``, evicting first; returns ``value``."""
        weight = _weight(value)
        while self and (self.weight + weight if self.weighed else len(self) + 1) > self.cap:
            for stale in list(islice(self, (len(self) + 1) // 2)):
                self.weight -= _weight(self.pop(stale))
        if key in self:  # two threads missed the same key
            self.weight -= _weight(self[key])
        self[key] = value
        self.weight += weight
        return value

    def clear(self) -> None:
        super().clear()
        self.weight = 0
